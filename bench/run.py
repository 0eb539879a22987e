"""Benchmark of the supou CLI: recovery-study throughput and long-series fit.

    python3 bench/run.py --workload study-sv --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program is imported from the
checkout's `src/` and driven through `supou.cli.main`, in this process.  A
run sets up (see `inputs.py`), runs whole rounds of the workload's
operations until the time spent in them reaches --seconds, checks every
output outside the timed region, and prints as its last stdout line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 half of
the time runs untraced and half under the tracer of `tracing.py`, and the
metrics are the per-layer ones plus the tracing overhead.  A fuller record
of the run, with its provenance, goes to bench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
INPUTS = os.path.join(BENCH, "inputs.py")

# Fixed path and series seeds, in a fixed order: with the step-2 optimizer
# fault, whether a path converges depends on its data, so inputs drawn from
# --seed would make the failed count vary from run to run.  --seed is only
# recorded in the provenance.
STUDY_PATH_SEEDS = (1, 2, 3, 4)
FIT_SERIES = (1, 2, 3)
# fresh-process set-up units of a study workload; fit-sv has one per series
STUDY_SETUP_UNITS = 5


def declared_units() -> Dict[str, str]:
    """Metric units as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


def load_program():
    """Import supou from this checkout's src/, and from nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "supou", "cli.py")):
        raise SystemExit(f"error: program sources not found under {SRC}")
    sys.path.insert(0, SRC)
    import supou.cli
    if not os.path.abspath(supou.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: supou was imported from {supou.cli.__file__}, not {SRC}")
    return supou.cli


class Op:
    """One operation: a CLI invocation with its own output directory."""

    def __init__(self, key: str, argv: List[str], out_dir: str):
        self.key, self.argv, self.out_dir = key, argv, out_dir


def _digest(paths: List[str], extra: bytes = b"") -> str:
    h = hashlib.sha256(extra)
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _dir_bytes(path: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(path) if entry.is_file())


class Workload:
    """Inputs, operations and checks of one workload.

    check_op returns (converged, errors) for one operation; identical
    outputs of the same operation are checked once and must repeat exactly.
    """

    fixed_inputs: tuple = ()

    def __init__(self, name: str, work: str):
        self.name, self.work = name, work
        self._verdicts: Dict[str, tuple] = {}
        self._digests: Dict[str, str] = {}

    def _cached(self, op: Op, digest: str, check) -> tuple:
        previous = self._digests.setdefault(op.key, digest)
        if previous != digest:
            return False, [f"{op.key}: outputs differ from an earlier round"]
        if digest not in self._verdicts:
            self._verdicts[digest] = check()
        return self._verdicts[digest]

    def run_errors(self) -> List[str]:
        return []


class StudyWorkload(Workload):
    fixed_inputs = STUDY_PATH_SEEDS

    def __init__(self, name: str, work: str, model: str):
        super().__init__(name, work)
        from inputs import STUDY_PARAMS
        from supou.gmm import default_conditions
        from supou.params import ModelKind, ParamVector
        self.kind = ModelKind(model)
        self.conditions = default_conditions(self.kind)
        self.beta = ParamVector(*(float(v) for _, v in STUDY_PARAMS))
        self.path_means: Dict[str, tuple] = {}

    def setup_units(self) -> range:
        return range(1, STUDY_SETUP_UNITS + 1)

    def ops(self) -> List[Op]:
        from inputs import STUDY_N_OBS, study_argv
        ops = []
        for k in self.fixed_inputs:
            out_dir = os.path.join(self.work, f"path-{k}")
            ops.append(Op(f"path-{k}", study_argv(self.kind.value, STUDY_N_OBS, k, out_dir),
                          out_dir))
        return ops

    def check_op(self, op: Op, rc, paths) -> tuple:
        if rc != 0 or len(paths) != 1:
            return False, [f"{op.key}: exit code {rc}, {len(paths)} simulated paths"]
        files = [os.path.join(op.out_dir, f) for f in
                 ("results.jsonl", "summary.json", "estimates.csv")]
        values = paths[0].values
        return self._cached(op, _digest(files, values.tobytes()),
                            lambda: self._check(op, files, values))

    def _check(self, op: Op, files, values) -> tuple:
        import checks
        with open(files[0], encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        with open(files[1], encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(files[2], encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        true_params = dict(zip(checks.PARAM_NAMES, self.beta.as_array().tolist()))
        errors = checks.check_study_outputs(records, summary, rows, true_params)
        if errors:
            return False, [f"{op.key}: {e}" for e in errors]
        sv = self.kind.value == "sv"
        data = values - values.mean() if sv else values
        errors = checks.check_step2_criterion(data, records[0], self.conditions)
        target_series = values * values if sv else values
        self.path_means[op.key] = (float(target_series.mean()), float(values.mean()))
        return records[0]["converged_step2"], [f"{op.key}: {e}" for e in errors]

    def run_errors(self) -> List[str]:
        import checks
        if len(self.path_means) != len(STUDY_PATH_SEEDS):
            return ["pooled mean not checked: some paths failed their own checks"]
        means = [self.path_means[f"path-{k}"] for k in STUDY_PATH_SEEDS]
        label = "mean of Y^2" if self.kind.value == "sv" else "mean of V"
        errors = checks.check_pooled_mean(label, [m[0] for m in means],
                                          checks.stationary_mean(self.beta, 1.0))
        if self.kind.value == "sv":
            errors += checks.check_pooled_mean("mean of Y", [m[1] for m in means], 0.0)
        return errors


class FitWorkload(Workload):
    fixed_inputs = FIT_SERIES

    def __init__(self, name: str, work: str):
        super().__init__(name, work)
        from supou.gmm import default_conditions
        from supou.params import ModelKind
        self.conditions = default_conditions(ModelKind.SV)
        self.returns: Dict[int, object] = {}

    def setup_units(self) -> tuple:
        return self.fixed_inputs

    def ops(self) -> List[Op]:
        import inputs
        ops = []
        for k in self.fixed_inputs:
            out_dir = os.path.join(self.work, f"fit-{k}")
            argv = ["fit", "--prices", "--input", inputs.series_paths(self.work, k)[0],
                    "--out-dir", out_dir]
            ops.append(Op(f"series-{k}", argv, out_dir))
        return ops

    def check_op(self, op: Op, rc, paths) -> tuple:
        if rc not in (0, 3):
            return False, [f"{op.key}: exit code {rc}"]
        files = [os.path.join(op.out_dir, f) for f in
                 ("fit.json", "acf_step1.csv", "acf_step2.csv")]
        return self._cached(op, _digest(files, str(rc).encode()),
                            lambda: self._check(op, rc, files))

    def _check(self, op: Op, rc, files) -> tuple:
        import numpy as np
        import checks
        import inputs
        from supou.params import ParamVector
        index = int(op.key.split("-")[1])
        if index not in self.returns:
            prices = np.load(inputs.series_paths(self.work, index)[1])
            y = np.diff(np.log(prices))
            self.returns[index] = y - y.mean()
        y = self.returns[index]
        with open(files[0], encoding="utf-8") as fh:
            result = json.load(fh)
        errors = []
        if result["converged_step2"] != (rc == 0):
            errors.append(f"exit code {rc} but converged_step2={result['converged_step2']}")
        for step in ("step1", "step2"):
            errors += checks.domain_errors(step, result[f"{step}_estimate"])
        if not errors:
            errors += checks.check_step2_criterion(y, result, self.conditions)
            for step, path in (("step1", files[1]), ("step2", files[2])):
                beta = ParamVector(*(result[f"{step}_estimate"][n] for n in checks.PARAM_NAMES))
                errors += checks.check_fit_acf(checks.read_acf_csv(path), y * y, beta,
                                               result["delta"], f"acf_{step}.csv")
        return rc == 0, [f"{op.key}: {e}" for e in errors]


WORKLOADS = {
    "study-sv": lambda work: StudyWorkload("study-sv", work, "sv"),
    "study-int": lambda work: StudyWorkload("study-int", work, "integrated"),
    "fit-sv": lambda work: FitWorkload("fit-sv", work),
}


class Runner:
    """Runs operations, counts outcomes and keeps the simulated paths for the checks."""

    def __init__(self, cli, workload: Workload):
        from tracing import Patches
        self.cli, self.workload = cli, workload
        self.attempted = self.failed = 0
        self.errors: List[str] = []
        self.outcomes: Dict[str, dict] = {}
        self._paths: list = []
        self._capture = Patches()

    def _call(self, op: Op, tracer, index: int):
        def capture(fn):
            def keep(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._paths.append(result)
                return result
            return keep

        self._capture.replace("supou.cli", "simulate_path", capture)
        try:
            if tracer is None:
                return self.cli.main(op.argv)
            return tracer.run_op(index, lambda: self.cli.main(op.argv))
        finally:
            self._capture.restore()

    def phase(self, ops: List[Op], seconds: float, tracer=None) -> dict:
        """Whole rounds of ops until their summed wall time reaches `seconds`."""
        busy = cpu = 0.0
        n = 0
        rounds = []
        per_op = {op.key: {"wall_s": [], "cpu_s": []} for op in ops}
        while True:
            round_start = busy
            for op in ops:
                self._paths = []
                c0, t0 = time.process_time(), time.perf_counter()
                try:
                    rc = self._call(op, tracer, n)
                except Exception as exc:  # a crash is a failed operation, not a crashed run
                    rc = f"{type(exc).__name__}: {exc}"
                t1, c1 = time.perf_counter(), time.process_time()
                busy += t1 - t0
                cpu += c1 - c0
                n += 1
                per_op[op.key]["wall_s"].append(t1 - t0)
                per_op[op.key]["cpu_s"].append(c1 - c0)
                if tracer is not None:
                    tracer.add_count("cli.bytes_written", _dir_bytes(op.out_dir))
                    tracer.reduce_captures()
                converged, errors = self.workload.check_op(op, rc, self._paths)
                self._paths = []
                self.attempted += 1
                self.failed += int(not converged or bool(errors))
                self.errors += errors
                self.outcomes[op.key] = {"exit_code": rc, "converged": converged}
            rounds.append(busy - round_start)
            if busy >= seconds:
                return {"busy_s": busy, "cpu_s": cpu, "ops": n, "round_s": rounds,
                        "per_op": per_op}


def timed_setup(workload: Workload) -> dict:
    """Median wall time of the workload's fresh-process set-up units.

    A unit (`inputs.py`) imports the program, makes its inputs and makes one
    small warm-up call, so that each unit covers imports, input generation
    and first-call costs.
    """
    units = []
    for index in workload.setup_units():
        t0 = time.perf_counter()
        subprocess.run([sys.executable, INPUTS, workload.name, str(index), workload.work],
                       check=True, timeout=150)
        units.append(time.perf_counter() - t0)
    return {"units_s": units, "setup_s": statistics.median(units)}


def _openblas_threads() -> Optional[int]:
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> Optional[str]:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(git, head[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def provenance(workload: Workload, args) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = sorted(os.path.join(dp, f) for dp, _, fs in os.walk(os.path.join(SRC, "supou"))
                     for f in fs if f.endswith(".py"))
    return {
        "workload": workload.name,
        "seed": args.seed,
        "input_seeds": list(workload.fixed_inputs),
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "src_sha256": _digest(sources),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    units = declared_units()
    cli = load_program()
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{os.getpid():07d}")
    os.makedirs(work)
    try:
        workload = WORKLOADS[args.workload](work)
        setup = timed_setup(workload)
        runner = Runner(cli, workload)
        ops = workload.ops()
        record = {"provenance": provenance(workload, args), "setup": setup}
        if args.trace == 0:
            phase = runner.phase(ops, args.seconds)
            values = {
                "ops_per_s": phase["ops"] / phase["busy_s"],
                "cpu_s_per_op": phase["cpu_s"] / phase["ops"],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "setup_s": setup["setup_s"],
            }
            metrics = {m: (v, units[m]) for m, v in values.items()}
            record["phases"] = {"untraced": phase}
        else:
            from tracing import Tracer, layer_metrics
            plain = runner.phase(ops, args.seconds / 2)
            tracer = Tracer()
            traced = runner.phase(ops, args.seconds / 2, tracer)
            layers = layer_metrics(tracer, traced["ops"])
            layers["trace.overhead_s_per_op"] = (traced["busy_s"] / traced["ops"]
                                                 - plain["busy_s"] / plain["ops"])
            metrics = {m: (v, units[m]) for m, v in layers.items()}
            record["phases"] = {"untraced": plain, "traced": traced}
            record["missing_boundaries"] = sorted(tracer.patches.missing)
            tracer.save(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.npz"))
        run_errors = workload.run_errors()
        if run_errors:
            runner.failed = runner.attempted
        errors = runner.errors + run_errors
        result = {
            "correct": not errors,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
        }
        record.update(result=result, errors=errors, outcomes=runner.outcomes)
        with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, default=str)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
