"""Command-line surface: simulate, estimate, study and fit subcommands.

Exit codes: 0 success, 2 usage or input error, 3 estimation non-convergence.
All file outputs are UTF-8; CSVs use CRLF line endings and full float64
precision so reruns with the same seed are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, fields
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .descriptive import demean, histogram, normal_qq_points, sample_acov, sample_var
from .errors import DataError, DomainError, InitializationError, ParameterError
from .gmm import (
    GmmResult,
    MomentConditionSet,
    default_conditions,
    transform,
    two_step_gmm,
    untransform,
)
from .moments import (
    intsupou_acov,
    intsupou_var,
    supou_acov,
    supou_var,
    sv_sqret_acov,
    sv_sqret_var,
)
from .params import ModelKind, ObservationSchedule, ParamVector, PiSpec
from .simulate import LevySpec, SimulationConfig, levy_moments, simulate_path

logger = logging.getLogger("supou.cli")

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3

PARAM_NAMES = tuple(field.name for field in fields(ParamVector))
HIST_BINS = 20
# half-width of the uniform log-scale jitter around the truth that a
# recovery study starts each path's estimation from
START_JITTER = 0.5


class CliError(Exception):
    """Input or configuration problem; carries the process exit code."""

    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _lag_list(text: str) -> Tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad lag list {text!r}") from exc


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: str, payload: Dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_series(path: str) -> Tuple[Optional[List[str]], np.ndarray]:
    """Read a one-observation-per-line CSV: `value` or `date,value` rows."""
    if not os.path.exists(path):
        raise CliError(f"input file not found: {path}")
    dates: List[str] = []
    values: List[float] = []
    n_cols = None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if lineno == 1:
                try:
                    float(row[-1])
                except ValueError:
                    continue  # header row
            if n_cols is None:
                n_cols = len(row)
                if n_cols not in (1, 2):
                    raise CliError(f"{path}:{lineno}: expected 1 or 2 columns, got {n_cols}")
            if len(row) != n_cols:
                raise CliError(f"{path}:{lineno}: inconsistent column count")
            try:
                value = float(row[-1])
            except ValueError as exc:
                raise CliError(f"{path}:{lineno}: not a number: {row[-1]!r}") from exc
            if not math.isfinite(value):
                raise CliError(f"{path}:{lineno}: not a finite number: {row[-1]!r}")
            values.append(value)
            if n_cols == 2:
                dates.append(row[0])
    if not values:
        raise CliError(f"no observations found in {path}")
    return (dates if dates else None), np.array(values)


def _model_from_args(args) -> Tuple[ParamVector, LevySpec]:
    """Parameters and the compound Poisson spec with their (mu, sigma2)."""
    try:
        beta = ParamVector(args.mu, args.sigma2, args.alpha_pi, args.B)
        return beta, LevySpec.from_moments(beta.mu, beta.sigma2, args.jump_shape)
    except ParameterError as exc:
        raise CliError(f"invalid parameters: {exc}") from exc


def _conditions_from_args(args, kind: ModelKind) -> MomentConditionSet:
    if args.lags is None:
        return default_conditions(kind, delta=args.delta)
    return MomentConditionSet(kind=kind, lags=args.lags, delta=args.delta)


def _manifest(args, extra: Dict) -> Dict:
    config = {key: value for key, value in sorted(vars(args).items()) if key != "func"}
    payload = {"version": __version__, "config": config}
    payload.update(extra)
    return payload


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    kind = ModelKind(args.model)
    beta, spec = _model_from_args(args)
    os.makedirs(args.out_dir, exist_ok=True)
    schedule = ObservationSchedule(args.delta, args.n_obs)
    pi = PiSpec.from_params(beta)

    paths = []
    for p in range(args.n_paths):
        config = SimulationConfig(truncation_lead=args.truncation_lead, seed=args.seed + p)
        sample = simulate_path(kind, spec, pi, schedule, config)
        filename = os.path.join(args.out_dir, f"path_{p:04d}.csv")
        _write_csv(filename, ["t", "value"],
                   [[_fmt(t), _fmt(v)] for t, v in zip(schedule.times(), sample.values)])
        paths.append(os.path.basename(filename))
        logger.info("wrote %s (%d observations)", filename, schedule.n_obs)

    mu, sigma2 = levy_moments(spec)
    _write_json(
        os.path.join(args.out_dir, "manifest.json"),
        _manifest(args, {
            "command": "simulate",
            "derived_levy_moments": {"mu": mu, "sigma2": sigma2},
            "paths": paths,
        }),
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def _run_estimate(data: np.ndarray, conditions: MomentConditionSet) -> GmmResult:
    """Cold-start two-step GMM on the estimation series (SV returns demeaned)."""
    try:
        return two_step_gmm(data, conditions.kind, conditions=conditions)
    except DataError as exc:
        raise CliError(f"estimation failed: {exc}") from exc
    except (InitializationError, ParameterError) as exc:
        raise CliError(f"estimation failed: {exc}", code=EXIT_NONCONVERGED) from exc


def cmd_estimate(args) -> int:
    kind = ModelKind(args.model)
    _, series = read_series(args.input)
    conditions = _conditions_from_args(args, kind)
    result = _run_estimate(demean(series) if kind is ModelKind.SV else series, conditions)
    os.makedirs(args.out_dir, exist_ok=True)

    payload = result.to_dict(annualize_factor=args.annualize_factor)
    _write_json(os.path.join(args.out_dir, "estimate.json"), payload)
    _write_json(
        os.path.join(args.out_dir, "manifest.json"),
        _manifest(args, {"command": "estimate", "n_observations": int(series.size)}),
    )
    logger.info(
        "step-2 estimate %s (converged: %s)",
        asdict(result.step2_estimate), result.converged_step2,
    )
    return EXIT_OK if result.converged_step2 else EXIT_NONCONVERGED


# ---------------------------------------------------------------------------
# study
# ---------------------------------------------------------------------------

def _study_one_path(kind: ModelKind, beta_true: ParamVector, spec: LevySpec,
                    schedule: ObservationSchedule, conditions: MomentConditionSet,
                    truncation_lead: float, index: int, seed: int) -> Dict:
    """One simulate-then-estimate replication; module-level for pickling."""
    sim_config = SimulationConfig(truncation_lead=truncation_lead, seed=seed)
    sample = simulate_path(kind, spec, PiSpec.from_params(beta_true), schedule, sim_config)

    # start in a log-scale neighbourhood of the truth, as in a recovery study
    start_rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,)))
    theta0 = transform(beta_true) + start_rng.uniform(-START_JITTER, START_JITTER, size=4)
    data = demean(sample.values) if kind is ModelKind.SV else sample.values
    result = two_step_gmm(data, kind, conditions=conditions, start=untransform(theta0))
    record = {"path": index, "seed": seed}
    record.update(result.to_dict())
    return record


def cmd_study(args) -> int:
    kind = ModelKind(args.model)
    beta, spec = _model_from_args(args)
    conditions = _conditions_from_args(args, kind)
    os.makedirs(args.out_dir, exist_ok=True)

    one_path = partial(_study_one_path, kind, beta, spec,
                       ObservationSchedule(args.delta, args.n_obs), conditions,
                       args.truncation_lead)
    indices = range(args.n_paths)
    seeds = range(args.seed, args.seed + args.n_paths)
    # both maps return the records in path order
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            records = list(pool.map(one_path, indices, seeds, chunksize=1))
    else:
        records = list(map(one_path, indices, seeds))

    results = os.path.join(args.out_dir, "results.jsonl")
    with open(results, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(json.dumps(record) + "\n" for record in records)

    # one (paths x 4) array of estimates per step, columns in PARAM_NAMES order
    steps = ("step1", "step2")
    estimates = {
        step: np.array([[rec[f"{step}_estimate"][name] for name in PARAM_NAMES]
                        for rec in records])
        for step in steps
    }
    header = ["path", "seed", "converged_step1", "converged_step2"]
    header += [f"{step}_{name}" for step in steps for name in PARAM_NAMES]
    header += ["step1_objective", "step2_objective"]
    rows = [
        [rec["path"], rec["seed"], int(rec["converged_step1"]), int(rec["converged_step2"])]
        + [_fmt(v) for v in (*est1, *est2, rec["step1_objective"], rec["step2_objective"])]
        for rec, est1, est2 in zip(records, estimates["step1"], estimates["step2"])
    ]
    _write_csv(os.path.join(args.out_dir, "estimates.csv"), header, rows)

    converged = np.array([rec["converged_step2"] for rec in records])
    final = estimates["step2"][converged]
    if len(final) >= 2:
        for name, values in zip(PARAM_NAMES, final.T):
            _write_csv(
                os.path.join(args.out_dir, f"hist_{name}.csv"),
                ["left", "right", "count"],
                [[_fmt(lo), _fmt(hi), count] for lo, hi, count in histogram(values, HIST_BINS)],
            )
            _write_csv(
                os.path.join(args.out_dir, f"qq_{name}.csv"),
                ["theoretical", "sample"],
                [[_fmt(a), _fmt(b)] for a, b in normal_qq_points(values)],
            )

    summary = {
        "command": "study",
        "model": kind.value,
        "n_paths": args.n_paths,
        "n_obs": args.n_obs,
        "true_params": asdict(beta),
        "converged_step1": sum(rec["converged_step1"] for rec in records),
        "converged_step2": len(final),
        "non_converged_paths": [rec["path"] for rec, ok in zip(records, converged) if not ok],
    }
    if len(final):
        medians = np.median(final, axis=0)
        errors = np.median(np.abs(final - beta.as_array()), axis=0)
        summary["medians_step2"] = dict(zip(PARAM_NAMES, medians.tolist()))
        summary["median_abs_error_step2"] = dict(zip(PARAM_NAMES, errors.tolist()))
    _write_json(os.path.join(args.out_dir, "summary.json"), summary)
    _write_json(
        os.path.join(args.out_dir, "manifest.json"),
        _manifest(args, {"command": "study"}),
    )
    logger.info(
        "study complete: %d/%d paths converged in step 2",
        summary["converged_step2"], args.n_paths,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _model_curves(kind: ModelKind, beta: ParamVector, delta: float,
                  lags: Sequence[int]) -> Tuple[np.ndarray, float]:
    if kind is ModelKind.SUPOU:
        var = supou_var(beta)
        acov = np.array([supou_acov(beta, h * delta) for h in lags])
    elif kind is ModelKind.INTEGRATED:
        var = intsupou_var(beta, delta)
        acov = np.array([intsupou_acov(beta, delta, h) for h in lags])
    else:
        var = sv_sqret_var(beta, delta)
        acov = np.array([sv_sqret_acov(beta, delta, h) for h in lags])
    return acov, var


def cmd_fit(args) -> int:
    kind = ModelKind(args.model)
    dates, raw = read_series(args.input)
    if args.prices:
        if np.any(raw <= 0.0):
            raise CliError("price series must be strictly positive to take log returns")
        series = np.diff(np.log(raw))
        dates = dates[1:] if dates else None
    else:
        series = raw
    if series.size < 3:
        raise CliError("need at least 3 observations after differencing")
    fitted = demean(series) if kind is ModelKind.SV else series
    # a failed estimation leaves no output directory behind
    result = _run_estimate(fitted, _conditions_from_args(args, kind))

    os.makedirs(args.out_dir, exist_ok=True)
    rows = zip(dates, fitted) if dates else ((i + 1, v) for i, v in enumerate(fitted))
    _write_csv(
        os.path.join(args.out_dir, "series_used.csv"),
        ["date", "value"],
        [[label, _fmt(value)] for label, value in rows],
    )

    # empirical curves are for the estimation series (squared returns for SV)
    target = fitted * fitted if kind is ModelKind.SV else fitted
    lags = list(range(1, args.acf_lags + 1))
    emp_var = sample_var(target)
    emp_acov = np.array([sample_acov(target, h) for h in lags])
    for step, beta in (("step1", result.step1_estimate), ("step2", result.step2_estimate)):
        model_acov, model_var = _model_curves(kind, beta, args.delta, lags)
        _write_csv(
            os.path.join(args.out_dir, f"acf_{step}.csv"),
            ["lag", "empirical_acov", "model_acov", "empirical_acf", "model_acf"],
            [
                [h, _fmt(emp_acov[i]), _fmt(model_acov[i]),
                 _fmt(emp_acov[i] / emp_var), _fmt(model_acov[i] / model_var)]
                for i, h in enumerate(lags)
            ],
        )

    payload = result.to_dict(annualize_factor=args.annualize_factor)
    payload["acf_decay_exponent_step2"] = 1.0 - result.step2_estimate.alpha_pi
    _write_json(os.path.join(args.out_dir, "fit.json"), payload)
    _write_json(
        os.path.join(args.out_dir, "manifest.json"),
        _manifest(args, {"command": "fit", "n_observations": int(series.size)}),
    )
    logger.info(
        "fit complete: step-2 %s (converged: %s)",
        asdict(result.step2_estimate), result.converged_step2,
    )
    return EXIT_OK if result.converged_step2 else EXIT_NONCONVERGED


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mu", type=float, default=0.015)
    parser.add_argument("--sigma2", type=float, default=0.003)
    parser.add_argument("--alpha-pi", type=float, default=4.0, dest="alpha_pi")
    parser.add_argument("--B", type=float, default=-0.1)
    parser.add_argument("--jump-shape", type=float, default=3.0,
                        help="Gamma jump shape; the compound Poisson rate and the "
                             "jump rate follow from mu and sigma2")


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-obs", type=_positive_int, default=10_000)
    parser.add_argument("--truncation-lead", type=float, default=2000.0,
                        help="burn-in length; jumps before -lead are not drawn, so the "
                             "mean at t=0 falls short by (1 - B*lead)^(1 - alpha_pi) "
                             "of the stationary mean (59%% at alpha_pi=1.1, 0.65%% at "
                             "1.95, with the defaults)")


def _add_common_flags(parser: argparse.ArgumentParser, model_default: str) -> None:
    parser.add_argument("--model", choices=[k.value for k in ModelKind],
                        default=model_default)
    parser.add_argument("--delta", type=float, default=1.0)
    parser.add_argument("--out-dir", default="out")


def _add_estimation_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--lags", type=_lag_list, default=None,
                        help="comma-separated lag set, e.g. 1,2,4,5")


def _add_input_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", required=True)
    parser.add_argument("--annualize-factor", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="supou",
        description="Simulate and estimate supOU, integrated supOU and supOU SV models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sim = commands.add_parser("simulate", help="write simulated path CSVs")
    _add_common_flags(sim, "supou")
    _add_param_flags(sim)
    _add_sim_flags(sim)
    sim.add_argument("--n-paths", type=_positive_int, default=1)
    sim.set_defaults(func=cmd_simulate)

    est = commands.add_parser("estimate", help="two-step GMM on one series")
    _add_common_flags(est, "supou")
    _add_estimation_flags(est)
    _add_input_flags(est)
    est.set_defaults(func=cmd_estimate)

    study = commands.add_parser("study", help="simulate-and-estimate recovery study")
    _add_common_flags(study, "supou")
    _add_param_flags(study)
    _add_sim_flags(study)
    _add_estimation_flags(study)
    study.add_argument("--n-paths", type=_positive_int, default=100)
    study.add_argument("--workers", type=_positive_int, default=1,
                       help="parallel worker processes")
    study.set_defaults(func=cmd_study)

    fit = commands.add_parser("fit", help="fit empirical data and compare acfs")
    _add_common_flags(fit, "sv")
    _add_estimation_flags(fit)
    _add_input_flags(fit)
    mode = fit.add_mutually_exclusive_group(required=True)
    mode.add_argument("--prices", action="store_true",
                      help="input holds prices; log returns are taken first")
    mode.add_argument("--returns", action="store_true",
                      help="input already holds log returns")
    fit.add_argument("--acf-lags", type=_positive_int, default=20,
                     help="compare empirical and model acf up to this lag")
    fit.set_defaults(func=cmd_fit)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (DomainError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
