"""Command-line surface: file outputs, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
from supou import cli
from supou.cli import (
    CSV_CHUNK_ROWS, HIST_BINS, PARAM_NAMES, _READ_BLOCK_BYTES,
    _blocks, _g17, _g17_fixed, _read_blocks, _read_rows, _run_estimate, _write_csv,
    build_parser, main, read_series,
)
from supou.descriptive import demean, histogram, normal_qq_points
from supou.errors import DataError
from supou.gmm import PARAMETER_BOX, default_conditions


def run(argv):
    return main([str(a) for a in argv])


def read(path):
    return path.read_bytes()


def csv_rows(path):
    """The rows of a CSV file after its header."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def csv_writer_bytes(header, rows):
    """What `csv.writer` writes for these rows, the reference for every CSV output."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


class TestSimulate:
    def test_defaults_reproduce_reference_setup(self, tmp_path):
        out = tmp_path / "sim"
        assert run(["simulate", "--n-obs", 50, "--seed", 1, "--out-dir", out]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        cfg = manifest["config"]
        assert (cfg["mu"], cfg["sigma2"], cfg["jump_shape"]) == (0.015, 0.003, 3.0)
        assert "truncation_lead" not in cfg
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
        assert_array_equal([float(t) for t in times.cells(0, len(times))], schedule.times())
        assert_array_equal(values, sample.values)

    def test_truncation_lead_is_unknown(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--truncation-lead", 4000, "--out-dir", tmp_path / "o"])
        assert exc.value.code == 2

    def test_zero_observations_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", "--n-obs", 0, "--out-dir", tmp_path])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["simulate", "study"])
    def test_negative_seed_usage_error(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "--seed", -3, "--n-obs", 10, "--out-dir", tmp_path / "o"])
        assert exc.value.code == 2
        assert "--seed: must be a non-negative integer, got -3" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_jump_shape_keeps_levy_moments(self, tmp_path):
        base, shaped = tmp_path / "base", tmp_path / "shaped"
        assert run(["simulate", "--n-obs", 50, "--seed", 1, "--out-dir", base]) == 0
        assert run(["simulate", "--n-obs", 50, "--seed", 1, "--jump-shape", 2,
                    "--out-dir", shaped]) == 0
        cfg = json.loads((shaped / "manifest.json").read_text())["config"]
        assert (cfg["mu"], cfg["sigma2"], cfg["jump_shape"]) == (0.015, 0.003, 2.0)
        # the shape changes the jump law, not the Levy mean rate k/lam and
        # variance rate k(k+1)/lam^2
        spec = LevySpec.from_moments(0.015, 0.003, 2.0)
        k, lam = spec.jump_shape, spec.jump_rate
        assert_allclose([spec.rate * k / lam, spec.rate * k * (k + 1.0) / lam**2],
                        [0.015, 0.003], rtol=1e-12)
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
        assert_allclose(annual["mu"], 250.0 * step2["mu"], rtol=1e-12)
        assert annual["alpha_pi"] == step2["alpha_pi"]
        assert_allclose(annual["B"], 250.0 * step2["B"], rtol=1e-12)

    def test_constant_input_exit_3(self, tmp_path):
        data = tmp_path / "const.csv"
        data.write_text("value\n" + "\n".join(["0.05"] * 100) + "\n")
        assert run(["estimate", "--input", data, "--out-dir", tmp_path / "o"]) == 3

    def test_missing_input_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert run(["estimate", "--input", missing, "--out-dir", tmp_path / "o"]) == 2
        assert str(missing) in capsys.readouterr().err

    def test_unreadable_input_exit_2(self, tmp_path, capsys):
        # a directory exists but cannot be read as a file
        assert run(["estimate", "--input", tmp_path, "--out-dir", tmp_path / "o"]) == 2
        assert f"cannot read input file {tmp_path}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        records = [json.loads(l) for l in (out / "results.jsonl").read_text().splitlines()]
        assert [(r["path"], r["seed"]) for r in records] == [(i, 11 + i) for i in range(4)]

        # each cell of estimates.csv is its record's value; a float's %.17g
        # text parses back to it exactly
        flags = ("path", "seed", "converged_step1", "converged_step2")
        estimates = [f"{step}_{name}" for step in ("step1", "step2") for name in PARAM_NAMES]
        objectives = ("step1_objective", "step2_objective")
        with open(out / "estimates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0]) == [*flags, *estimates, *objectives]
        for row, record in zip(rows, records, strict=True):
            assert [int(row[key]) for key in flags] == [record[key] for key in flags]
            assert [float(row[key]) for key in estimates] == [
                record[f"{step}_estimate"][name] for step in ("step1", "step2")
                for name in PARAM_NAMES]
            assert [float(row[key]) for key in objectives] == [record[key] for key in objectives]

        # the tables are of the converged step-2 estimates of the records
        final = np.array([[r["step2_estimate"][name] for name in PARAM_NAMES]
                          for r in records if r["converged_step2"]])
        assert summary["converged_step2"] == len(final) >= 2
        for name, values in zip(PARAM_NAMES, final.T):
            hist = [(float(left), float(right), int(count))
                    for left, right, count in csv_rows(out / f"hist_{name}.csv")]
            assert hist == histogram(values, HIST_BINS)
            qq = np.array(csv_rows(out / f"qq_{name}.csv"), dtype=float)
            assert_array_equal(qq, normal_qq_points(values))

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

    @pytest.mark.parametrize("n_obs,seed,step1_stop", [(300, 64, "at_box_edge"),
                                                       (150, 76, "converged")])
    def test_path_with_no_positive_scale_is_recorded(self, tmp_path, n_obs, seed, step1_stop):
        # no mean > 0 and sigma2 > 0 fit the squared returns of these short SV
        # paths at the shape where step 1 starts (seed 64) or, under the
        # step-2 weighting, where step 2 starts (seed 76): that step ends on
        # the face sigma2 = 0, a boundary fit, and the study writes its files
        out = tmp_path / "sv_study"
        assert run(["study", "--model", "sv", "--alpha-pi", 1.95, "--n-obs", n_obs,
                    "--n-paths", 1, "--seed", seed, "--out-dir", out]) == 0
        record = json.loads((out / "results.jsonl").read_text())
        assert record["step1_stop"] == step1_stop and record["step2_stop"] == "at_box_edge"
        assert record["step2_estimate"]["sigma2"] == sys.float_info.min
        assert (out / "estimates.csv").exists() and (out / "summary.json").exists()


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
        # the cold start has B = -0.1, so the lower face is log(0.1) - PARAMETER_BOX
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


class TestFailedCommandWritesNothing:
    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--delta", 0, "--n-obs", 10], "delta must be > 0"),
        # expected jump counts beyond the bound: an infinite horizon, and a
        # jump rate of about 3e296 from the tiny variance
        (["simulate", "--model", "integrated", "--delta", 1e308, "--n-obs", 5],
         "expected inf jumps"),
        (["study", "--model", "sv", "--sigma2", 1e-300, "--n-obs", 10, "--n-paths", 1],
         "more than 1e+08"),
        (["estimate", "--model", "sv", "--input", "RETURNS", "--annualize-factor", 0],
         "--annualize-factor must be finite and > 0, got 0.0"),
        (["fit", "--returns", "--input", "RETURNS", "--annualize-factor", "nan"],
         "--annualize-factor must be finite and > 0, got nan"),
        (["fit", "--returns", "--input", "RETURNS", "--acf-lags", 300],
         "--acf-lags 300 needs more than 300 observations, got 300"),
    ], ids=["sim-delta", "sim-jump-bound", "study-jump-bound", "est-annualize", "fit-annualize",
            "fit-acf-lags"])
    def test_exit_2_and_no_out_dir(self, tmp_path, capsys, monkeypatch, argv, message):
        # every flag is checked before estimating: two_step_gmm is never called
        calls = []
        monkeypatch.setattr("supou.cli.two_step_gmm", lambda *a, **k: calls.append(a))
        data = tmp_path / "returns.csv"
        y = simulate_path(ModelKind.SV, LevySpec.from_moments(0.015, 0.003), PiSpec(4.0, -0.1),
                          ObservationSchedule(1.0, 300), SimulationConfig(seed=2)).values
        data.write_text("\n".join(map(repr, y.tolist())) + "\n")
        out = tmp_path / "o"
        argv = [data if arg == "RETURNS" else arg for arg in argv]
        assert run([*argv, "--out-dir", out]) == 2
        assert message in capsys.readouterr().err
        assert not calls
        assert not out.exists()


class TestExtremeDelta:
    # the cold start puts B at -0.1/delta, where B**3 overflows or underflows
    # (integrated, SV) or the lags times delta overflow (supOU)
    @pytest.mark.parametrize("model, delta", [
        ("supou", 1e308), ("integrated", 1e-300), ("integrated", 1e308),
        ("sv", 1e-300), ("sv", 1e308),
    ])
    def test_exit_2_names_delta(self, tmp_path, capsys, model, delta):
        data = tmp_path / "series.csv"
        sample = simulate_path(ModelKind(model), LevySpec.from_moments(0.015, 0.003),
                               PiSpec(4.0, -0.1), ObservationSchedule(1.0, 300),
                               SimulationConfig(seed=4))
        data.write_text("\n".join(map(repr, sample.values.tolist())) + "\n")
        assert run(["estimate", "--model", model, "--input", data, "--delta", delta,
                    "--out-dir", tmp_path / "o"]) == 2
        assert f"delta={delta} is out of range" in capsys.readouterr().err
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


class TestNonUtf8Input:
    @pytest.mark.parametrize("mode", [["estimate"], ["fit", "--returns"]])
    def test_exit_2_names_the_file(self, tmp_path, capsys, mode):
        # a Latin-1 e-acute at byte offset 14
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"date,value\ncaf\xe9,1.0\n")
        out = tmp_path / "o"
        assert run([*mode, "--input", data, "--out-dir", out]) == 2
        assert f"{data}: not valid UTF-8 at byte offset 14" in capsys.readouterr().err
        assert not out.exists()


# line 1 opens a quote that no later line closes
OPEN_QUOTE_HEADER = '"date,value\n' + "".join(f"2020-{i:05d},0.01\n" for i in range(20_000))


class TestOpenQuote:
    @pytest.mark.parametrize("mode", [["estimate"], ["fit", "--returns"], ["fit", "--prices"]])
    def test_exit_2_names_the_line(self, tmp_path, capsys, mode):
        data = tmp_path / "open.csv"
        data.write_text(OPEN_QUOTE_HEADER)
        out = tmp_path / "o"
        assert run([*mode, "--input", data, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert f"{data}:1: the row starting here cannot be read" in err
        assert "field larger than field limit" in err
        assert not out.exists()


class TestAnnualizeFactor:
    @pytest.mark.parametrize("factor", [0, -252, "nan", "inf"])
    @pytest.mark.parametrize("mode", [["estimate"], ["fit", "--returns"]])
    def test_rejected_before_the_input_is_read(self, tmp_path, capsys, mode, factor):
        # the input does not exist, so an error naming it was raised later
        out = tmp_path / "o"
        assert run([*mode, "--input", tmp_path / "missing.csv", "--annualize-factor", factor,
                    "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert "--annualize-factor must be finite and > 0" in err
        assert "missing.csv" not in err
        assert not out.exists()


class TestConditionFlags:
    @pytest.mark.parametrize("flags, message", [
        (["--delta", 0], "delta must be > 0, got 0.0"),
        (["--delta", "nan"], "delta must be > 0, got nan"),
        (["--lags", "0,1"], "lags must be strictly increasing positive, got (0, 1)"),
        (["--lags", 3], "need at least two lags for four parameters, got (3,)"),
    ], ids=["delta-0", "delta-nan", "lag-0", "one-lag"])
    @pytest.mark.parametrize("mode", [["estimate"], ["fit", "--returns"]])
    def test_rejected_before_the_input_is_read(self, tmp_path, capsys, mode, flags, message):
        # the input does not exist, so an error naming it was raised later
        out = tmp_path / "o"
        assert run([*mode, "--input", tmp_path / "missing.csv", *flags, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "missing.csv" not in err
        assert not out.exists()


class TestEstimateMatchesFit:
    """`estimate` and `fit --returns` share one estimation pipeline."""

    @pytest.mark.parametrize("annualize", [[], ["--annualize-factor", 252]])
    @pytest.mark.parametrize("model", ["supou", "integrated", "sv"])
    def test_same_payload(self, tmp_path, model, annualize):
        data = tmp_path / "series.csv"
        sample = simulate_path(ModelKind(model), LevySpec.from_moments(0.015, 0.003),
                               PiSpec(4.0, -0.1), ObservationSchedule(1.0, 1500),
                               SimulationConfig(seed=6))
        data.write_text("\n".join(map(repr, sample.values.tolist())) + "\n")
        common = ["--model", model, "--input", data, "--lags", "1,2,3,5", *annualize]
        code = run(["estimate", *common, "--out-dir", tmp_path / "est"])
        assert run(["fit", "--returns", *common, "--out-dir", tmp_path / "fit"]) == code
        estimate = json.loads((tmp_path / "est" / "estimate.json").read_text())
        fit = json.loads((tmp_path / "fit" / "fit.json").read_text())
        del fit["acf_decay_exponent_step2"]
        assert fit == estimate

    def test_sv_returns_are_demeaned_in_place(self):
        y = simulate_path(ModelKind.SV, LevySpec.from_moments(0.015, 0.003), PiSpec(4.0, -0.1),
                          ObservationSchedule(1.0, 1500), SimulationConfig(seed=6)).values + 0.01
        expected = demean(y.copy())
        args = build_parser().parse_args(["estimate", "--model", "sv", "--input", "unused"])
        _run_estimate(args, default_conditions(ModelKind.SV), y)
        assert_array_equal(y, expected)


class TestHugeValues:
    @pytest.mark.parametrize("model", ["supou", "integrated", "sv"])
    def test_exit_2_names_the_overflow(self, tmp_path, capsys, model):
        # the moments of values near 1e200 overflow; the dispersion check
        # itself once raised OverflowError here
        data = tmp_path / "huge.csv"
        values = 1e200 * (1.0 + 0.1 * np.random.default_rng(1).random(300))
        data.write_text("\n".join(map(repr, values.tolist())) + "\n")
        out = tmp_path / "o"
        assert run(["estimate", "--model", model, "--input", data, "--out-dir", out]) == 2
        assert "observations too large in magnitude" in capsys.readouterr().err
        assert not out.exists()


class TestSingularCovariance:
    # the exit code and message of the estimator's RuntimeErrors come from
    # `main`, as those of the package's ValueErrors do
    def test_cli_has_no_error_class_of_its_own(self):
        assert not hasattr(cli, "CliError")

    @pytest.mark.parametrize("model", ["supou", "integrated"])
    def test_tiny_values_exit_3(self, tmp_path, capsys, model):
        # the moment covariance of values near 1e-150 is of order 1e-600,
        # below the least float, so step 2 cannot invert it
        data = tmp_path / "tiny.csv"
        values = 1e-150 * (1.0 + 0.1 * np.random.default_rng(1).random(300))
        data.write_text("\n".join(map(repr, values.tolist())) + "\n")
        out = tmp_path / "o"
        assert run(["estimate", "--model", model, "--input", data, "--out-dir", out]) == 3
        assert "error: moment covariance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_study_exit_3(self, tmp_path, capsys, workers):
        # at sigma2 = 1e300 the integrated path is all zeros
        out = tmp_path / "study"
        assert run(["study", "--model", "integrated", "--sigma2", 1e300, "--n-obs", 100,
                    "--n-paths", 2, "--workers", workers, "--out-dir", out]) == 3
        assert "error: moment covariance" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_study_names_the_seed(self, tmp_path, capsys, workers):
        # path 0 (seed 10) fits; path 1 (seed 11) has a singular moment
        # covariance, and the error names its seed
        out = tmp_path / "study"
        assert run(["study", "--model", "integrated", "--sigma2", 0.3, "--n-obs", 200,
                    "--n-paths", 6, "--seed", 10, "--workers", workers, "--out-dir", out]) == 3
        assert capsys.readouterr().err.rstrip().endswith("(study path with seed 11)")
        assert not out.exists()


class TestImports:
    def test_cli_leaves_the_quadrature_unloaded(self):
        # only the quadrature oracle integrates, and it imports scipy.integrate
        # itself, so a command's process never loads it
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        code = "import sys, supou.cli; sys.exit('scipy.integrate' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestManifest:
    """Every command's `manifest.json` starts with the same keys, in order."""

    def test_key_order(self, tmp_path):
        sim = tmp_path / "sim"
        assert run(["simulate", "--n-obs", 300, "--out-dir", sim]) == 0
        data = sim / "path_0000.csv"
        commands = {
            "simulate": ([], ["paths"]),
            "estimate": (["estimate", "--input", data, "--out-dir", tmp_path / "estimate"],
                         ["n_observations"]),
            "fit": (["fit", "--model", "supou", "--returns", "--input", data,
                     "--out-dir", tmp_path / "fit"], ["n_observations"]),
            "study": (["study", "--n-obs", 300, "--n-paths", 1, "--out-dir", tmp_path / "study"],
                      []),
        }
        for command, (argv, extra) in commands.items():
            if argv:
                assert run(argv) in (0, 3)
            out = sim if command == "simulate" else tmp_path / command
            manifest = json.loads((out / "manifest.json").read_text())
            assert list(manifest) == ["version", "config", "command", *extra]
            assert manifest["command"] == command


PLAIN_VALUES = ["0.25", "-3", "+4", "1e5", " 1.0 ", "7.000000000000001e-05", "1_000", "2_5.0"]
ODD_VALUES = ["nan", "inf", "-Infinity", "x", "", " "]
PLAIN_DATES = ["2020-01-02", "d", " t ", "", "1.5", "2020_01_04"]
ODD_DATES = ['"2020-01-03, Fri"', '"say ""hi"""', '"a\nb"', " "]
# a NUL, which csv reads from Python 3.11 on: in a date in a later block of
# the bulk reader, and in a value
NUL_IN_DATE = "".join(f"d{i:06d},{i % 7 / 8}\n" for i in range(10**5)).replace(
    "d050000", "d05\x000000")
NUL_IN_VALUE = "1.0\n2.0\n3\x00.0\n"


@st.composite
def series_texts(draw):
    """CSV text: plain `value` or `date,value` rows in half the draws, else any
    mix of the shapes that the bulk reader leaves to the line loop."""
    plain = draw(st.booleans())
    values = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                       st.sampled_from(PLAIN_VALUES if plain else PLAIN_VALUES + ODD_VALUES))
    dates = st.sampled_from(PLAIN_DATES if plain else PLAIN_DATES + ODD_DATES)
    n_cols = draw(st.integers(1, 2 if plain else 3))

    def row(cols):
        return ",".join([draw(dates) for _ in range(cols - 1)] + [draw(values)])

    lines = [row(n_cols if plain else draw(st.sampled_from([n_cols, n_cols, 1, 2, 3])))
             for _ in range(draw(st.integers(1 if plain else 0, 12)))]
    if not plain:
        for _ in range(draw(st.integers(0, 2))):
            spot = draw(st.integers(0, len(lines)))
            lines.insert(spot, draw(st.sampled_from(["", "  ", " , ", "date,value"])))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["date,value", "value", "t,value,extra"])))
    endings = ["\n", "\r\n"] if plain else ["\n", "\r\n", "\r"]
    if draw(st.booleans()):
        ending = draw(st.sampled_from(endings))
        text = ending.join(lines)
    else:
        text = "".join(line + draw(st.sampled_from(endings)) for line in lines[:-1])
        text += lines[-1] if lines else ""
    if lines and draw(st.booleans()):
        text += draw(st.sampled_from(endings))
    return text


def read_outcome(call):
    try:
        dates, values = call()
    except DataError as exc:
        return str(exc)
    if dates is not None:
        dates = dates.buffer, dates.offsets.dtype, dates.offsets.tobytes()
    return dates, values.dtype, values.shape, values.tobytes()


class TestReadSeries:
    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("read") / "series.csv"

    @settings(max_examples=400, deadline=None)
    @given(text=series_texts())
    @example(text=NUL_IN_DATE)
    @example(text=NUL_IN_VALUE)
    def test_bulk_reader_matches_line_loop(self, path, text):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read_outcome(lambda: read_series(str(path)))
        assert got == read_outcome(lambda: _read_rows(str(path)))

    @pytest.mark.parametrize("text", [
        "1.5\n2.5\n", "value\r\n1.5\r\n2.5\r\n", "date,value\n2020-01-01,1.5\n2020-01-02,-2",
        "a,1\nb, 2 \n", "7\n", "1_000\n",
        pytest.param(NUL_IN_DATE, id="nul-in-date"),
    ])
    def test_plain_shapes_take_the_bulk_path(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode())
        assert _read_blocks(str(path)) is not None

    @pytest.mark.parametrize("text", [
        '"2020-01-01",1.5\n', "1.5\r2.5\r", "1.5\n\n2.5\n", "1.5\n  \n2.5\n", "a,1\n2\n",
        "1,2,3\n", "1.5\nnan\n", "1.5\nvalue\n", "", "value\n",
    ])
    def test_other_shapes_go_to_the_line_loop(self, tmp_path, text):
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode())
        assert _read_blocks(str(path)) is None

    @pytest.mark.parametrize("data", [b"0.5\n0.25\n0.75\n", b'"0.5"\n0.25\n0.75\n'],
                             ids=["bulk", "line-loop"])
    def test_byte_order_mark_is_not_a_header(self, tmp_path, data):
        path = tmp_path / "series.csv"
        path.write_bytes(b"\xef\xbb\xbf" + data)
        dates, values = read_series(str(path))
        assert dates is None
        assert_array_equal(values, [0.5, 0.25, 0.75])

    def test_byte_order_mark_keeps_the_decode_offset(self, tmp_path):
        # a Latin-1 e-acute at byte offset 17 of the file, 14 after the mark
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"\xef\xbb\xbfdate,value\ncaf\xe9,1.0\n")
        with pytest.raises(DataError, match="not valid UTF-8 at byte offset 17"):
            read_series(str(path))

    @pytest.mark.parametrize("text, message", [
        ("1.0\n2.0\nnan\n", ":3: not a finite number: 'nan'"),
        ("a,1\nb,2,3\n", ":2: inconsistent column count"),
        ("1,2,3\n", ":1: expected 1 or 2 columns, got 3"),
        ("1.0\n\nvalue\n", ":3: not a number: 'value'"),
        pytest.param(NUL_IN_VALUE, ":3: not a number: '3", id="nul-in-value"),
        ("date,value\n", "no observations found in "),
        # a quote left open runs past csv's field size limit of 131,072 characters
        pytest.param(OPEN_QUOTE_HEADER, ":1: the row starting here cannot be read",
                     id="open-quote-line-1"),
        pytest.param('1.0\n2.0\n"3.0\n' + "4.0\n" * 40_000,
                     ":3: the row starting here cannot be read", id="open-quote-line-3"),
    ])
    def test_errors_name_the_line(self, tmp_path, text, message):
        path = tmp_path / "series.csv"
        path.write_text(text)
        with pytest.raises(DataError, match=message):
            read_series(str(path))


# rows of 16 bytes: without a header, each block of the bulk reader holds
# ROWS_PER_BLOCK of them
ROWS_PER_BLOCK = _READ_BLOCK_BYTES // 16


def fixed_rows(n, dated):
    """`n` rows of 16 bytes each, `date,value` or `value`."""
    return "".join(f"{i:06d},{1 + i % 7 / 8:.6f}\n" if dated else f"{1 + i % 7 / 8:.13f}\n"
                   for i in range(n))


class TestBlockReader:
    """Files of more than one block of the bulk reader."""

    @pytest.mark.parametrize("mode", ["--returns", "--prices"])
    def test_blocks_match_the_line_loop(self, tmp_path, mode):
        n = 3 * _READ_BLOCK_BYTES // 30  # rows of about 40 bytes
        returns = sv_returns(n)
        values = 100.0 * np.exp(np.cumsum(returns)) if mode == "--prices" else returns
        dates = [f"día {i:06d} €" for i in range(n)]
        data = b"\xef\xbb\xbf" + "date,value\r\n".encode() + "".join(
            f"{d},{v!r}\r\n" for d, v in zip(dates, values.tolist())).encode()
        assert len(data) > 3 * _READ_BLOCK_BYTES
        path = tmp_path / "series.csv"
        path.write_bytes(data)
        assert _read_blocks(str(path)) is not None
        assert read_outcome(lambda: read_series(str(path))) == read_outcome(
            lambda: _read_rows(str(path)))
        out = tmp_path / "fit"
        assert run(["fit", mode, "--input", path, "--out-dir", out]) in (0, 3)
        if mode == "--prices":
            returns, dates = np.diff(np.log(values)), dates[1:]
        fitted = [f"{v:.17g}" for v in demean(returns).tolist()]
        assert read(out / "series_used.csv") == csv_writer_bytes(["date", "value"],
                                                                 zip(dates, fitted))

    @pytest.mark.parametrize("dated", [False, True], ids=["value", "date-value"])
    @pytest.mark.parametrize("row", ["\n", "\r\n", "  \n"], ids=["empty", "crlf", "spaces"])
    def test_blank_row_at_a_block_boundary_goes_to_the_line_loop(self, tmp_path, dated, row):
        text = fixed_rows(ROWS_PER_BLOCK, dated) + row + fixed_rows(ROWS_PER_BLOCK, dated)
        assert text[_READ_BLOCK_BYTES:].startswith(row)
        path = tmp_path / "series.csv"
        path.write_bytes(text.encode())
        assert _read_blocks(str(path)) is None
        assert read_outcome(lambda: read_series(str(path))) == read_outcome(
            lambda: _read_rows(str(path)))

    @pytest.mark.parametrize("dated, later, message", [
        (False, "nan\n", "not a finite number: 'nan'"),
        (True, "x,1,2\n", "inconsistent column count"),
        # no comma and then two: the block's total of commas is unchanged
        (True, "7\nx,1,2\n", "inconsistent column count"),
        (False, "x,7\n", "inconsistent column count"),
        (False, "value\n", "not a number: 'value'"),
    ], ids=["nan", "two-commas", "none-then-two", "two-columns", "header"])
    def test_a_later_block_names_its_line(self, tmp_path, capsys, dated, later, message):
        header = "date,value\n" if dated else "value\n"
        head = header + fixed_rows(2 * ROWS_PER_BLOCK, dated)
        assert len(head) > 2 * _READ_BLOCK_BYTES
        data = tmp_path / "series.csv"
        data.write_text(head + later + fixed_rows(5, dated))
        out = tmp_path / "o"
        assert run(["estimate", "--input", data, "--out-dir", out]) == 2
        assert f"{data}:{2 * ROWS_PER_BLOCK + 2}: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_latin1_in_a_later_block_names_the_file_offset(self, tmp_path):
        head = b"\xef\xbb\xbfdate,value\n" + fixed_rows(2 * ROWS_PER_BLOCK, True).encode()
        path = tmp_path / "latin1.csv"
        path.write_bytes(head + b"caf\xe9,1.0\n" + fixed_rows(5, True).encode())
        assert len(head) > 2 * _READ_BLOCK_BYTES
        with pytest.raises(DataError, match=f"not valid UTF-8 at byte offset {len(head) + 3}$"):
            read_series(str(path))

    def test_memory_follows_the_series(self, tmp_path):
        # daily prices as the fit benchmark writes them, 27 bytes a row
        n = 100_000
        prices = 100.0 * np.exp(np.cumsum(0.01 * np.random.default_rng(5).standard_normal(n)))
        dates = (np.datetime64("1726-01-01", "D") + np.arange(n)).astype(str)
        path = tmp_path / "prices.csv"
        path.write_text("date,value\n" + "".join(
            f"{d},{p!r}\n" for d, p in zip(dates.tolist(), prices.tolist())))
        tracemalloc.start()
        try:
            series = read_series(str(path))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_array_equal(series[1], prices)
        # one str per line or per date would take about 60 bytes a row
        assert peak < 2 * path.stat().st_size
        assert kept < 40 * n

    def test_memory_follows_the_series_on_the_row_loop(self, tmp_path):
        # the same daily prices under a quoted header, which only csv reads
        n = 100_000
        prices = 100.0 * np.exp(np.cumsum(0.01 * np.random.default_rng(5).standard_normal(n)))
        dates = (np.datetime64("1726-01-01", "D") + np.arange(n)).astype(str)
        rows = "".join(f"{d},{p!r}\n" for d, p in zip(dates.tolist(), prices.tolist()))
        quoted, plain = tmp_path / "quoted.csv", tmp_path / "plain.csv"
        quoted.write_text('"date","value"\n' + rows)
        plain.write_text("date,value\n" + rows)
        assert _read_blocks(str(quoted)) is None
        tracemalloc.start()
        try:
            got = read_outcome(lambda: read_series(str(quoted)))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # a str of the whole file alone would take its size, and each
        # line's str and row list about 150 bytes a row more
        assert peak < 2 * quoted.stat().st_size
        assert got == read_outcome(lambda: read_series(str(plain)))

    def test_bare_cr_line_endings_are_read_a_block_at_a_time(self, tmp_path):
        # the same daily prices with CR line endings: no LF ends a block
        n = 100_000
        prices = 100.0 * np.exp(np.cumsum(0.01 * np.random.default_rng(6).standard_normal(n)))
        dates = (np.datetime64("1726-01-01", "D") + np.arange(n)).astype(str)
        text = "date,value\n" + "".join(f"{d},{p!r}\n"
                                         for d, p in zip(dates.tolist(), prices.tolist()))
        bare_cr, plain = tmp_path / "cr.csv", tmp_path / "plain.csv"
        bare_cr.write_bytes(text.replace("\n", "\r").encode())
        plain.write_bytes(text.encode())
        assert max(map(len, _blocks(str(bare_cr)))) < 2 * _READ_BLOCK_BYTES
        tracemalloc.start()
        try:
            series = read_series(str(bare_cr))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * bare_cr.stat().st_size
        assert read_outcome(lambda: series) == read_outcome(lambda: read_series(str(plain)))

    def test_the_first_fault_in_the_file_is_reported(self, tmp_path, capsys):
        # a nan on line 3 and a Latin-1 byte more than two blocks later
        data = tmp_path / "series.csv"
        data.write_bytes(b"1.0\n2.0\nnan\n" + fixed_rows(2 * ROWS_PER_BLOCK, False).encode()
                         + b"caf\xe9\n")
        out = tmp_path / "o"
        assert run(["estimate", "--input", data, "--out-dir", out]) == 2
        assert f"{data}:3: not a finite number: 'nan'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("reader, later", [(_read_blocks, '"1.5"\n'), (_read_rows, "nan\n")],
                             ids=["bulk", "row-loop"])
    def test_a_reader_that_stops_early_closes_the_file(self, tmp_path, monkeypatch, reader,
                                                       later):
        path = tmp_path / "series.csv"
        rows = fixed_rows(ROWS_PER_BLOCK, False)
        path.write_text(rows + later + rows)
        blocks = cli._blocks
        generators = []

        def recorded(path):
            generators.append(blocks(path))
            return generators[-1]

        monkeypatch.setattr(cli, "_blocks", recorded)
        try:
            reader(str(path))
        except DataError:
            pass
        # the generator stopped in the file's second block, and was closed
        # then, not when it was collected
        assert len(generators) == 1
        assert generators[0].gi_frame is None


def sv_returns(n, seed=3):
    return simulate_path(ModelKind.SV, LevySpec.from_moments(0.015, 0.003), PiSpec(4.0, -0.1),
                         ObservationSchedule(1.0, n), SimulationConfig(seed=seed)).values


class TestCsvBytes:
    @pytest.mark.parametrize("n", [CSV_CHUNK_ROWS, CSV_CHUNK_ROWS + 7])
    @pytest.mark.parametrize("labels", ["none", "plain", "comma", "quote", "newline"])
    def test_series_used_matches_csv_writer(self, tmp_path, labels, n):
        returns = sv_returns(n)
        dates = {
            "none": None,
            "plain": [f"2020-{i:05d}" for i in range(n)],
            "comma": [f"{i}, Mon" for i in range(n)],
            "quote": [f'day "{i}"' for i in range(n)],
            "newline": [f"{i}\nMon" if i % 2 else f"{i}\r\nTue" for i in range(n)],
        }[labels]
        data = tmp_path / "returns.csv"
        cells = [[repr(r)] for r in returns.tolist()]
        if dates is not None:
            cells = [[d, *c] for d, c in zip(dates, cells)]
        data.write_bytes(csv_writer_bytes(["date", "value"][-len(cells[0]):], cells))
        out = tmp_path / "fit"
        assert run(["fit", "--returns", "--input", data, "--out-dir", out]) in (0, 3)
        fitted = [f"{v:.17g}" for v in demean(returns).tolist()]
        expected = csv_writer_bytes(["date", "value"],
                                    zip(dates or range(1, n + 1), fitted))
        assert read(out / "series_used.csv") == expected

    def test_array_columns_match_lists(self, tmp_path):
        n = CSV_CHUNK_ROWS + 7
        columns = [np.arange(1, n + 1), sv_returns(n)]
        header = ["lag", "value"]
        _write_csv(tmp_path / "arrays.csv", header, columns)
        _write_csv(tmp_path / "lists.csv", header, [c.tolist() for c in columns])
        assert read(tmp_path / "arrays.csv") == read(tmp_path / "lists.csv")

    @pytest.mark.parametrize("n", [1, CSV_CHUNK_ROWS + 7])
    def test_the_column_decides_the_cell(self, tmp_path, n):
        # dates as read, floats as %.17g, everything else as %d (the ints
        # pass 10^17, where %.17g would round them); one row has too few
        # floats for `_g17`'s numpy digits, the other spans two chunks
        dates = [f'day "{i}", Mon' if i % 3 else f"2020-{i:05d}" for i in range(n)]
        offsets = np.cumsum([0] + [len(d.encode()) + 1 for d in dates])
        rng = np.random.default_rng(n)
        floats = (rng.standard_normal(n) * 10.0 ** rng.integers(-6, 6, n)).tolist()
        columns = [cli._DateColumn(bytearray("".join(d + "\n" for d in dates).encode()), offsets),
                   range(10**17, 10**17 + n), [i % 2 == 0 for i in range(n)],
                   np.arange(n) - 5 * 10**18, floats, sv_returns(n)]
        _write_csv(tmp_path / "table.csv", list("abcdef"), columns)
        ints = [[f"{int(v):d}" for v in column] for column in columns[1:4]]
        texts = [[f"{v:.17g}" for v in column] for column in columns[4:]]
        assert read(tmp_path / "table.csv") == csv_writer_bytes(list("abcdef"),
                                                                zip(dates, *ints, *texts))

    @pytest.mark.parametrize("model", ["supou", "integrated", "sv"])
    def test_path_file_matches_csv_writer(self, tmp_path, model):
        n = CSV_CHUNK_ROWS + 3
        out = tmp_path / "sim"
        assert run(["simulate", "--model", model, "--n-obs", n, "--seed", 4,
                    "--out-dir", out]) == 0
        schedule = ObservationSchedule(1.0, n)
        sample = simulate_path(ModelKind(model), LevySpec.from_moments(0.015, 0.003),
                               PiSpec(4.0, -0.1), schedule, SimulationConfig(seed=4))
        expected = csv_writer_bytes(["t", "value"], (
            [f"{t:.17g}", f"{v:.17g}"] for t, v in zip(schedule.times(), sample.values)))
        assert read(out / "path_0000.csv") == expected

    def test_tables_match_csv_writer(self, tmp_path):
        study, fit = tmp_path / "study", tmp_path / "fit"
        assert run(["study", "--model", "supou", "--n-obs", 1500, "--n-paths", 3,
                    "--seed", 11, "--out-dir", study]) == 0
        assert json.loads((study / "summary.json").read_text())["converged_step2"] >= 2
        data = tmp_path / "returns.csv"
        data.write_text("\n".join(map(repr, sv_returns(1500).tolist())) + "\n")
        assert run(["fit", "--returns", "--input", data, "--acf-lags", 9,
                    "--out-dir", fit]) in (0, 3)
        tables = [study / "estimates.csv", *(study / f"{kind}_{name}.csv"
                                             for kind in ("hist", "qq") for name in PARAM_NAMES),
                  fit / "acf_step1.csv", fit / "acf_step2.csv"]
        for path in tables:
            with open(path, encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            assert read(path) == csv_writer_bytes(header, rows), path.name
            # integers and floats alike as %.17g of their value
            assert all(cell == f"{float(cell):.17g}" for row in rows for cell in row), path.name

    @pytest.mark.parametrize("labels", ["non-ascii", "lone-cr"])
    def test_dates_are_written_as_read(self, tmp_path, labels):
        n = CSV_CHUNK_ROWS + 7
        returns = sv_returns(n)
        dates = [f"día {i:05d} € 日" if labels == "non-ascii" else f"{i}\rMon" for i in range(n)]
        data = tmp_path / "returns.csv"
        data.write_bytes(csv_writer_bytes(["date", "value"],
                                          zip(dates, map(repr, returns.tolist()))))
        out = tmp_path / "fit"
        assert run(["fit", "--returns", "--input", data, "--out-dir", out]) in (0, 3)
        fitted = [f"{v:.17g}" for v in demean(returns).tolist()]
        assert read(out / "series_used.csv") == csv_writer_bytes(["date", "value"],
                                                                 zip(dates, fitted))


def ulps_around(value, n):
    """The doubles within `n` ulps of `value`, `value` included."""
    return (np.array([value]).view(np.int64) + np.arange(-n, n + 1)).view(float)


def dyadic_ties():
    """Doubles m / 2^(k+1), m odd, whose 17-digit rounding is a tie: m 5^k / 2
    lies in [1e16, 1e17) for k = 16 - E, E = -4, ..., -1."""
    ties = []
    for k in range(17, 21):
        first, stop = -(-2 * 10**16 // 5**k), 2 * 10**17 // 5**k
        ties.append(np.arange(first | 1, stop, 2) / 2.0 ** (k + 1))
    return np.concatenate(ties)


class TestG17:
    """`_g17` against `b"%.17g" % v`, the bytes of every `%.17g` CSV cell."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
    def test_any_float(self, values):
        assert _g17(np.array(values)) == [b"%.17g" % v for v in values]

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=1e-4, max_value=1.0, exclude_max=True), min_size=1,
                    max_size=40), st.booleans())
    def test_fixed_range(self, values, negative):
        values = [-v for v in values] if negative else values
        assert _g17(np.array(values)) == [b"%.17g" % v for v in values]

    def test_every_size_takes_numpy(self, monkeypatch):
        # no size rule: every size, empty included, goes through `_g17_fixed`
        sizes = [0, 1, 159, 160, 200]
        values = np.linspace(0.001, 0.9, max(sizes))
        calls = []
        monkeypatch.setattr(cli, "_g17_fixed", lambda v: calls.append(v.size) or _g17_fixed(v))
        for size in sizes:
            assert _g17(values[:size]) == [b"%.17g" % v for v in values[:size].tolist()]
        assert calls == sizes

    def test_edges(self):
        values = np.concatenate([
            [0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308],
            *(ulps_around(float(f"1e{k}"), 200) for k in range(-5, 2)),
            dyadic_ties(),
        ])
        values = np.concatenate([values, -values])
        assert _g17(values) == [b"%.17g" % v for v in values.tolist()]
        # the ties are taken in numpy, which must round them to even as % does
        ties = dyadic_ties()
        assert _g17_fixed(ties)[1].all()

    def test_returns_take_no_fallback(self):
        # a fall back to % on every cell would still give the right bytes, only slowly
        rng = np.random.default_rng(0)
        returns = np.concatenate([
            demean(sv_returns(CSV_CHUNK_ROWS)),
            rng.uniform(1.0, 10.0, CSV_CHUNK_ROWS) * 10.0 ** rng.integers(-4, 0, CSV_CHUNK_ROWS),
        ])
        returns = returns[(np.abs(returns) >= 1e-4) & (np.abs(returns) < 1.0)]
        assert returns.size > 1.5 * CSV_CHUNK_ROWS
        texts, fixed = _g17_fixed(returns)
        assert fixed.all()
        assert texts.tolist() == [b"%.17g" % v for v in returns.tolist()]
