"""One set-up unit of a workload, run in a fresh process.

    python3 bench/inputs.py WORKLOAD INDEX OUT_DIR

Imports the program, makes the workload's inputs for INDEX and makes one
small warm-up call through `supou.cli.main`.  The study workloads take their
inputs as CLI arguments; their warm-up is a 500-observation study path.  For
fit-sv the unit writes `series_<INDEX>.csv`, daily `date,value` prices whose
log returns are Y_n = sqrt(V_n) Z_n at the paper's empirical SV estimate: V
comes from `integrate_supou` on a jump stream drawn with seed INDEX, Z from
this file's own generator, also seeded with INDEX.  The prices are also
saved as `series_<INDEX>.npy` for the checks, and their first 2,000 rows as
`warmup_<INDEX>.csv`, which the warm-up call fits.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

STUDY_PARAMS = (("--mu", "0.015"), ("--sigma2", "0.003"), ("--alpha-pi", "1.95"), ("--B", "-0.1"))
STUDY_N_OBS = 10_000
WARMUP_N_OBS = 500
WARMUP_PRICES = 2_000

# paper's empirical estimate of the supOU SV model (daily units)
FIT_TRUTH = (6.1e-6, 1.4e-9, 6.8, -0.0086)
FIT_N_OBS = 100_000
FIT_START_PRICE = 100.0
FIT_FIRST_DATE = "1726-01-01"
SHOCK_STREAM = 7


def series_paths(out_dir: str, index: int):
    stem = os.path.join(out_dir, f"series_{index}")
    return stem + ".csv", stem + ".npy"


def study_argv(model: str, n_obs: int, seed: int, out_dir: str):
    """One study path of the paper's long-memory recovery study."""
    argv = ["study", "--model", model]
    for flag, value in STUDY_PARAMS:
        argv += [flag, value]
    return argv + ["--n-obs", str(n_obs), "--n-paths", "1", "--seed", str(seed),
                   "--workers", "1", "--out-dir", out_dir]


def warmup_argv(workload: str, index: int, out_dir: str):
    target = os.path.join(out_dir, f"warmup-{workload}-{index}")
    if workload == "fit-sv":
        return ["fit", "--prices", "--input", os.path.join(out_dir, f"warmup_{index}.csv"),
                "--out-dir", target]
    model = {"study-sv": "sv", "study-int": "integrated"}[workload]
    return study_argv(model, WARMUP_N_OBS, 1, target)


def write_price_series(index: int, out_dir: str) -> None:
    import numpy as np
    from supou.params import ObservationSchedule, ParamVector, PiSpec
    from supou.simulate import LevySpec, SimulationConfig, integrate_supou, sample_jump_stream

    beta = ParamVector(*FIT_TRUTH)
    schedule = ObservationSchedule(1.0, FIT_N_OBS)
    window = (-SimulationConfig().truncation_lead, schedule.horizon)
    jumps = sample_jump_stream(LevySpec.from_moments(beta.mu, beta.sigma2),
                               PiSpec.from_params(beta), window, index)
    v = integrate_supou(jumps, schedule).values
    z = np.random.default_rng([SHOCK_STREAM, index]).standard_normal(v.size)
    prices = FIT_START_PRICE * np.exp(np.concatenate([[0.0], np.cumsum(np.sqrt(v) * z)]))
    dates = np.datetime64(FIT_FIRST_DATE, "D") + np.arange(prices.size)
    rows = [f"{d},{p!r}\n" for d, p in zip(dates.astype(str), prices.tolist())]
    csv_path, npy_path = series_paths(out_dir, index)
    for path, lines in ((csv_path, rows),
                        (os.path.join(out_dir, f"warmup_{index}.csv"), rows[:WARMUP_PRICES])):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("date,value\n")
            fh.writelines(lines)
    np.save(npy_path, prices)


def main(argv) -> int:
    workload, index, out_dir = argv[0], int(argv[1]), argv[2]
    sys.path.insert(0, SRC)
    import supou.cli  # the import is part of set-up
    if workload == "fit-sv":
        write_price_series(index, out_dir)
    # exit code 3 is a fit whose step 2 did not converge, which still warms up
    rc = supou.cli.main(warmup_argv(workload, index, out_dir))
    return 0 if rc in (0, 3) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
