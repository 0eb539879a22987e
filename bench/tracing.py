"""Spans at the supou module boundaries, recorded from outside the program.

The tracer replaces module-level names that one layer calls in another (for
example `supou.cli.two_step_gmm` or `supou.gmm.intsupou_mean`) with wrappers
that record a span: name, start, end, parent span and operation.  Spans stay
in compact in-memory arrays and are written out once, after the run.  A name
that no longer exists is skipped: its metrics are then absent.
"""

from __future__ import annotations

import importlib
import math
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

import numpy as np

# (module whose global is replaced, attribute, span name).  The module is the
# caller's, so that only calls crossing into another layer are timed.
MOMENTS_FROM_GMM = ("supou_mean", "supou_var", "supou_acov", "intsupou_mean", "intsupou_var",
                    "_int_var_unit", "_int_acov_units")
MOMENTS_FROM_CLI = ("supou_var", "supou_acov", "intsupou_var", "intsupou_acov",
                    "sv_sqret_var", "sv_sqret_acov")
DESCRIPTIVE_FROM_CLI = ("demean", "histogram", "normal_qq_points", "sample_acov", "sample_var")
DESCRIPTIVE_FROM_GMM = ("sample_acf", "sample_mean", "sample_var")
# the moment-target evaluations: one of these per criterion evaluation
EVAL_SPANS = ("moments.intsupou_mean@gmm", "moments.supou_mean@gmm")

BOUNDARIES: List[Tuple[str, str, str]] = [
    ("supou.cli", "simulate_path", "simulate.simulate_path"),
    ("supou.simulate", "sample_jump_stream", "simulate.sample_jump_stream"),
    ("supou.simulate", "evaluate_supou", "simulate.evaluate_supou"),
    ("supou.simulate", "integrate_supou", "simulate.integrate_supou"),
    ("supou.simulate", "simulate_sv_logreturns", "simulate.simulate_sv_logreturns"),
    ("supou.cli", "two_step_gmm", "gmm.two_step_gmm"),
    ("supou.gmm", "minimize", "gmm.minimize"),
    ("supou.gmm", "initial_estimate", "gmm.initial_estimate"),
    ("supou.gmm", "estimate_weighting", "gmm.estimate_weighting"),
    ("supou.cli", "read_series", "cli.read_series"),
]
BOUNDARIES += [("supou.gmm", n, f"moments.{n}@gmm") for n in MOMENTS_FROM_GMM]
BOUNDARIES += [("supou.cli", n, f"moments.{n}@cli") for n in MOMENTS_FROM_CLI]
BOUNDARIES += [("supou.cli", n, f"descriptive.{n}@cli") for n in DESCRIPTIVE_FROM_CLI]
BOUNDARIES += [("supou.gmm", n, f"descriptive.{n}@gmm") for n in DESCRIPTIVE_FROM_GMM]

# spans whose arguments or result the metrics need
CAPTURED = ("simulate.sample_jump_stream", "simulate.evaluate_supou",
            "simulate.integrate_supou", "cli.read_series")

ROOT_SPAN = "cli.main"

# exp(x) rounds to zero in float64 below log(2^-1075), half the smallest
# subnormal; a jump-sum term is nonzero while its exponent stays above it
LOG_TINY = -1075.0 * math.log(2.0)


class Patches:
    """Replaces module attributes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []
        self.missing: set = set()

    def replace(self, module_name: str, attr: str, make: Callable) -> bool:
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.add(f"{module_name}.{attr}")
            return False
        self._saved.append((module, attr, original))
        setattr(module, attr, make(original))
        return True

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


class Tracer:
    """Records spans at BOUNDARIES; one instance per traced phase."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.t0 = array("d")
        self.t1 = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.current_op = -1
        self._stack = [-1]
        self.captures: List[Tuple[str, object, object]] = []
        self.counts: Dict[str, float] = {}
        self.patches = Patches()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn: Callable, name: str) -> Callable:
        nid = self._name_id(name)
        capture = name in CAPTURED
        t0s, t1s, names, parents, ops, stack = (
            self.t0, self.t1, self.name, self.parent, self.op, self._stack)
        captures = self.captures
        tracer = self

        def traced(*args, **kwargs):
            sid = len(t0s)
            t0s.append(0.0)
            t1s.append(0.0)
            names.append(nid)
            parents.append(stack[-1])
            ops.append(tracer.current_op)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                t0s[sid] = start
                t1s[sid] = end
            if capture:
                captures.append((name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_index: int, call: Callable):
        """Run one operation under a root span, with the boundaries wrapped.

        The wrappers are in place only during the call, so that the
        benchmark's own checks between operations record no spans.
        """
        self.current_op = op_index
        for module_name, attr, name in BOUNDARIES:
            self.patches.replace(module_name, attr, lambda fn, name=name: self._wrap(fn, name))
        try:
            return self._wrap(call, ROOT_SPAN)()
        finally:
            self.patches.restore()

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def reduce_captures(self) -> None:
        """Turn captured arguments into counts and drop the references."""
        for name, args, result in self.captures:
            if name == "simulate.sample_jump_stream":
                self.add_count("simulate.jumps", len(result))
            elif name == "simulate.evaluate_supou":
                self.add_count("simulate.evaluate_supou.terms", evaluate_terms(*args[:2]))
            elif name == "simulate.integrate_supou":
                self.add_count("simulate.integrate_supou.terms", integrate_terms(*args[:2]))
            elif name == "cli.read_series":
                self.add_count("cli.bytes_read", os.path.getsize(args[0]))
        self.captures.clear()

    def spans(self) -> Dict[str, np.ndarray]:
        return {
            "t0": np.array(self.t0, dtype=float),
            "t1": np.array(self.t1, dtype=float),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def evaluate_terms(jumps, times) -> int:
    """Nonzero (time, jump) terms of the exact jump sum at the given times."""
    t = np.asarray(times, dtype=float)
    first = np.searchsorted(t, jumps.times, side="left")
    last = np.searchsorted(t, jumps.times + LOG_TINY / jumps.rates, side="right")
    return int(np.maximum(last - first, 0).sum())


def integrate_terms(jumps, schedule) -> int:
    """Nonzero (interval, jump) terms of the closed-form interval integrals."""
    edges = schedule.delta * np.arange(schedule.n_obs + 1)
    first = np.searchsorted(edges[1:], jumps.times, side="right")
    last = np.searchsorted(edges[:-1], jumps.times + LOG_TINY / jumps.rates, side="right")
    return int(np.maximum(last - first, 0).sum())


def layer_metrics(tracer: Tracer, n_ops: int) -> Dict[str, float]:
    """Per-operation layer metrics from the spans and counts of a traced phase.

    A metric is left out when a boundary it needs could not be wrapped.
    """
    s = tracer.spans()
    span_name = np.array(tracer.names, dtype=str)[s["name"]]
    dur = s["t1"] - s["t0"]
    child_time = np.zeros(dur.size)
    has_parent = s["parent"] >= 0
    np.add.at(child_time, s["parent"][has_parent], dur[has_parent])
    self_time = dur - child_time
    present = set(tracer.names)
    counts = tracer.counts
    out: Dict[str, float] = {}

    def total(*names: str, values: np.ndarray = dur) -> float:
        return float(values[np.isin(span_name, names)].sum())

    def put(metric: str, value: float, *needs: str) -> None:
        if present.issuperset(needs):
            out[metric] = value / n_ops

    put("simulate.sample_jump_stream.s", total("simulate.sample_jump_stream"),
        "simulate.sample_jump_stream")
    put("simulate.jumps", counts.get("simulate.jumps", 0.0), "simulate.sample_jump_stream")
    for span in ("simulate.evaluate_supou", "simulate.integrate_supou"):
        busy, terms = total(span), counts.get(f"{span}.terms", 0.0)
        put(f"{span}.s", busy, span)
        put(f"{span}.terms", terms, span)
        put(f"{span}.ns_per_term", 1e9 * n_ops * busy / terms if terms else 0.0, span)
    put("simulate.sv_self.s", total("simulate.simulate_sv_logreturns", values=self_time),
        "simulate.simulate_sv_logreturns")

    gmm_busy = total("gmm.two_step_gmm")
    put("gmm.two_step_gmm.s", gmm_busy, "gmm.two_step_gmm")
    put("gmm.initial_estimate.s", total("gmm.initial_estimate"), "gmm.initial_estimate")
    put("gmm.estimate_weighting.s", total("gmm.estimate_weighting"), "gmm.estimate_weighting")
    if present.issuperset({"gmm.two_step_gmm", "gmm.estimate_weighting"}):
        gmm_ids = np.flatnonzero(span_name == "gmm.two_step_gmm")
        weigh = np.flatnonzero(span_name == "gmm.estimate_weighting")
        split = s["t1"][gmm_ids].copy()  # a call that raised before weighting is all step 1
        split[np.searchsorted(gmm_ids, s["parent"][weigh])] = s["t0"][weigh]
        step1 = float((split - s["t0"][gmm_ids]).sum())

        def in_step2(names) -> np.ndarray:
            """Whether each span of these names starts after its call's split."""
            starts = s["t0"][np.isin(span_name, names)]
            owner = np.searchsorted(s["t0"][gmm_ids], starts, side="right") - 1
            return starts >= split[owner]

        evals = in_step2(EVAL_SPANS)
        n2 = int(evals.sum())
        put("gmm.step1.s", step1)
        put("gmm.step2.s", gmm_busy - step1)
        put("gmm.step1.evals", evals.size - n2)
        put("gmm.step2.evals", n2)
        put("gmm.us_per_eval", 1e6 * n_ops * gmm_busy / evals.size if evals.size else 0.0)
        # every start of step 2 is one minimize call after the split, so this
        # counts the restarts also when none of them converges
        put("gmm.step2.starts", int(in_step2(("gmm.minimize",)).sum()), "gmm.minimize")

    for layer in ("moments", "descriptive"):
        if any(n.startswith(f"{layer}.") for n in present):
            out[f"{layer}.s"] = float(dur[np.char.startswith(span_name, f"{layer}.")].sum()) / n_ops
    put("cli.read_series.s", total("cli.read_series"), "cli.read_series")
    put("cli.self.s", total(ROOT_SPAN, values=self_time), ROOT_SPAN)
    put("cli.bytes_read", counts.get("cli.bytes_read", 0.0), "cli.read_series")
    put("cli.bytes_written", counts.get("cli.bytes_written", 0.0), ROOT_SPAN)
    return out
